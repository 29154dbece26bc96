"""B2 — View freshness: the cost of merging (§7's first planned question).

"We plan to investigate the effect of the merging process on view
freshness (recall that the merging delays the application of some ALs to
the warehouse views)."

The experiment measures, per source update, the lag from source commit to
first warehouse visibility, under three coordinations at increasing update
rates:

* pass-through (no MVC, the freshness floor),
* SPA over complete managers (MVC-complete),
* PA over strong managers (MVC-strong).

Expected shape: coordination costs some freshness over pass-through (held
action lists), the premium stays bounded at moderate load, and everything
degrades as the system approaches saturation.

Paper question: §7 — "the effect of the merging process on view
freshness".  Reads: ``RunReport.mean_staleness`` / ``p95_staleness`` /
``max_staleness`` — the per-update source-commit→warehouse-visibility
lag, the same quantity ``UpdateLineage.latency`` reports per update
(``python -m repro inspect`` shows where any one update's lag went).
"""

from repro.system.config import SystemConfig
from repro.workloads.generator import WorkloadSpec
from repro.workloads.schemas import paper_views_example2, paper_world

from benchmarks.conftest import fmt_table, run_system

CONFIGS = [
    ("pass-through", SystemConfig(manager_kind="convergent")),
    ("SPA/complete", SystemConfig(manager_kind="complete")),
    ("PA/strong", SystemConfig(manager_kind="strong")),
]


def run_at(rate: float, name: str, config: SystemConfig):
    spec = WorkloadSpec(
        updates=100, rate=rate, seed=8, mix=(0.6, 0.2, 0.2), arrivals="poisson"
    )
    system = run_system(paper_world(), paper_views_example2(), config, spec)
    return system.report(classify=False)


def test_b2_freshness(benchmark, report):
    def experiment():
        table = {}
        for rate in (0.5, 2.0, 6.0):
            for name, config in CONFIGS:
                metrics = run_at(rate, name, config)
                table[(rate, name)] = metrics
        return table

    table = benchmark.pedantic(experiment, rounds=1, iterations=1)

    rows = []
    for rate in (0.5, 2.0, 6.0):
        for name, _config in CONFIGS:
            metrics = table[(rate, name)]
            rows.append(
                [
                    rate,
                    name,
                    f"{metrics.mean_staleness:.2f}",
                    f"{metrics.p95_staleness:.2f}",
                    f"{metrics.max_staleness:.2f}",
                ]
            )
    report("B2 — staleness (source commit -> warehouse visibility):")
    report(fmt_table(
        ["update rate", "coordination", "mean", "p95", "max"], rows
    ))
    report("")
    report("Shape: merging adds a bounded freshness premium over "
           "pass-through; staleness grows with the update rate.")

    for rate in (0.5, 2.0, 6.0):
        floor = table[(rate, "pass-through")].mean_staleness
        spa = table[(rate, "SPA/complete")].mean_staleness
        # The MVC premium exists but stays within a small multiple at
        # moderate load.
        assert spa >= floor * 0.9
        if rate <= 2.0:
            assert spa <= floor * 4 + 10
    # Staleness grows with rate for the coordinated configurations.
    assert (
        table[(6.0, "SPA/complete")].mean_staleness
        > table[(0.5, "SPA/complete")].mean_staleness * 0.8
    )
