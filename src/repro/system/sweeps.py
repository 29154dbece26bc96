"""Parameter sweeps: run a family of configurations and tabulate results.

The §7 study and the ablation benchmarks all share one shape — build N
systems that differ in one knob, drive the same seeded workload through
each, and compare their reports.  :func:`sweep` packages that shape as a
public API so downstream users can run their own studies:

    reports = sweep(
        ScenarioSpec(workload=WorkloadSpec(updates=100, rate=2.0, seed=7),
                     vary_workload=False, config={}, scheduler="fifo"),
        variants={"spa": {"manager_kind": "complete"},
                  "pa": {"manager_kind": "strong"}},
    )
    print(format_reports(reports))
"""

from __future__ import annotations

import dataclasses
from typing import TYPE_CHECKING, Callable, Mapping

from repro.system.builder import WarehouseSystem
from repro.system.report import RunReport

if TYPE_CHECKING:  # pragma: no cover - the caller passes the spec in
    from repro.conformance.scenario import ScenarioSpec


def sweep(
    scenario: ScenarioSpec,
    variants: Mapping[str, Mapping[str, object]],
    run_seed: int = 0,
    classify: bool = True,
    on_system: Callable[[str, WarehouseSystem], None] | None = None,
    **observe: object,
) -> list[RunReport]:
    """Run every variant on an identical workload; returns one report each,
    named by its variant.

    A variant is a mapping of ``SystemConfig`` overrides laid over the
    scenario's own; each is built afresh from ``scenario`` at ``run_seed``
    (same workload, so the variants are fully independent), and
    ``observe`` goes to :meth:`ScenarioSpec.build`.  ``classify`` goes to
    :meth:`WarehouseSystem.report`.  ``on_system`` (if given) sees each
    finished system before it is discarded — the hook trace/metrics
    exporters attach to.
    """
    reports: list[RunReport] = []
    for name, overrides in variants.items():
        variant = dataclasses.replace(
            scenario, config={**scenario.config, **overrides}
        )
        with variant.build(run_seed, **observe) as system:
            system.run()
            if on_system is not None:
                on_system(name, system)
            reports.append(
                dataclasses.replace(system.report(classify), variant=name)
            )
    return reports
